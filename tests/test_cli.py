import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rhoslice import cli
from rhoslice.cli import (
    DocumentError,
    family_spec,
    load_document,
    main,
    parse_document,
)

from rhoslice import signatures
from rhoslice.obstruction import (Companion, FamilyMember, FamilySpec,
                                  InfectedKnot, verify_obstructed)
from rhoslice.seifert import SeifertMatrix, pattern_9_46
from rhoslice.signatures import rho0

from conftest import random_seifert, rho_of, symbol

K946_DOC = {
    "schema": "rhoslice.knot/1",
    "pattern": {
        "name": "9_46",
        "seifert": [[0, 1], [2, 0]],
        "curves": [
            {"name": "alpha", "class": ["1", "0"]},
            {"name": "beta", "class": ["0", "1"]},
        ],
    },
    "companions": {"alpha": {"symbol": "rA"}, "beta": {"symbol": "rB"}},
}

FAMILY_DOC = {
    "schema": "rhoslice.knot/1",
    "pattern": K946_DOC["pattern"],
    "knots": {
        "K1": {"companions": {"alpha": {"symbol": "rA1"},
                              "beta": {"symbol": "rB1"}}},
        "K2": {"companions": {"alpha": {"symbol": "rA2"},
                              "beta": {"symbol": "rB2"}}},
    },
    "family": [
        {"knot": "K1", "multiplicity": 1},
        {"knot": "K2", "multiplicity": -2},
    ],
}

TREFOIL_DOC = {"schema": "rhoslice.knot/1", "seifert": [[-1, 1], [0, -1]]}


def write_doc(tmp_path, doc, name="knot.json"):
    """Write the document, or a string as the document's text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc),
                    encoding="utf-8")
    return str(path)


# -- parsing and round trips --------------------------------------------------


def test_companions_are_parsed_once(monkeypatch, tmp_path, capsys):
    doc = dict(K946_DOC, companions={"alpha": {"rho0": "1/3"},
                                     "beta": {"seifert": [[-1, 1], [0, -1]]}})
    parsed = parse_document(doc)
    trefoil = SeifertMatrix([[-1, 1], [0, -1]])
    assert parsed.companions == (("alpha", rho_of(Fraction(1, 3))),
                                 ("beta", trefoil))
    want = rho0(trefoil)

    def unreachable(*args):
        raise AssertionError("parsed or computed again")

    # family_spec builds the companions from the parsed values alone
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_matrix", unreachable)
        m.setattr(cli, "_parse_rational", unreachable)
        knot = family_spec(parsed).members[0].knot
    assert knot.companion("alpha") == ("alpha", rho_of(
        Fraction(1, 3)))
    assert knot.companion("beta") == ("beta", want)
    knot = family_spec(parse_document(K946_DOC)).members[0].knot
    assert knot.companion("alpha") == ("rA", symbol("rA"))
    # only obstruct computes the signature integral of a companion
    monkeypatch.setattr(signatures, "rho0", unreachable)
    path = write_doc(tmp_path, doc)
    for command in ("info", "signature"):
        assert main([command, path]) == 0
    capsys.readouterr()


def test_family_spec_construction():
    spec = family_spec(parse_document(FAMILY_DOC))
    assert [m.multiplicity for m in spec.members] == [1, -2]
    assert spec.names == ("K1", "K2")
    spec1 = family_spec(parse_document(K946_DOC))
    assert len(spec1.members) == 1


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d.update(seifert=[[0, 1], [1, 0]]), "±1"),
    (lambda d: d.update(seifert=[[0, 1.5], [2, 0]]), "non-integer"),
    (lambda d: d.update(schema="other/9"), "unsupported schema"),
    (lambda d: d.update(surprises=1), "unknown field"),
    (lambda d: d.pop("seifert"), "needs 'seifert' or 'pattern'"),
])
def test_parse_errors_name_the_field(mangle, message):
    doc = {"schema": "rhoslice.knot/1", "seifert": [[-1, 1], [0, -1]]}
    mangle(doc)
    with pytest.raises(DocumentError, match=message):
        parse_document(doc)


def test_parse_errors_in_pattern_documents():
    doc = json.loads(json.dumps(K946_DOC))
    doc["companions"]["gamma"] = {"symbol": "x"}
    with pytest.raises(DocumentError, match="no such curve"):
        parse_document(doc)
    doc = json.loads(json.dumps(K946_DOC))
    doc["companions"]["alpha"] = {"symbol": "x", "rho0": "1"}
    with pytest.raises(DocumentError, match="exactly one"):
        parse_document(doc)
    doc = json.loads(json.dumps(FAMILY_DOC))
    doc["family"][0]["knot"] = "K9"
    with pytest.raises(DocumentError, match="unresolved knot name"):
        parse_document(doc)
    doc = json.loads(json.dumps(FAMILY_DOC))
    doc["family"][0]["multiplicity"] = 0
    with pytest.raises(DocumentError, match="nonzero"):
        parse_document(doc)


def test_load_document_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": ', encoding="utf-8")
    with pytest.raises(DocumentError, match="line 1"):
        load_document(str(path))
    path.write_bytes(b'{"schema": "\xff"}')
    with pytest.raises(DocumentError, match="can't decode byte 0xff"):
        load_document(str(path))


# -- commands and exit codes ----------------------------------------------------


def test_info_command(tmp_path, capsys):
    path = write_doc(tmp_path, K946_DOC)
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "2*t^2 - 5*t + 2" in out
    assert "Q[s]/(s - 2)" in out and "Q[s]/(s - 1/2)" in out
    assert "alpha" in out and "beta" in out
    assert "metabolizer: (1, 0)" in out


def test_info_decomposes_once(tmp_path, capsys, monkeypatch):
    from rhoslice import almodule, blanchfield

    calls = []
    real = almodule._decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(almodule, "_decompose", counted)
    monkeypatch.setattr(blanchfield, "_decompose", counted)
    for doc in (K946_DOC, TREFOIL_DOC):
        calls.clear()
        path = write_doc(tmp_path, doc)
        assert main(["info", path, "--output", "structured"]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_info_prints_coefficients_past_the_digit_limit(tmp_path, capsys):
    # a Gram coefficient of this genus-4 matrix has 834 digits; with the
    # interpreter's int-to-str limit lowered to its minimum, 640, printing
    # it raised ValueError and the command ended in a traceback
    V = random_seifert(random.Random(1), genus=4, spread=3)
    path = write_doc(tmp_path, {"schema": "rhoslice.knot/1",
                                "seifert": [list(row) for row in V.rows]})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["info", path]) == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    assert "Linking form Gram matrix:" in out
    assert max(len(digits) for digits in re.findall(r"\d+", out)) > 640


def test_info_trefoil(tmp_path, capsys):
    path = write_doc(tmp_path, TREFOIL_DOC)
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "t^2 - t + 1" in out
    assert "metabolizer: none" in out


def test_obstruct_exit_codes(tmp_path, capsys):
    path = write_doc(tmp_path, K946_DOC)
    assert main(["obstruct", path, "--cmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "OBSTRUCTED" in out

    equal = json.loads(json.dumps(K946_DOC))
    equal["companions"] = {"alpha": {"symbol": "r"}, "beta": {"symbol": "r"}}
    path2 = write_doc(tmp_path, equal, "equal.json")
    assert main(["obstruct", path2, "--cmax", "2"]) == 2
    out = capsys.readouterr().out
    assert "INCONCLUSIVE" in out and "witness" in out

    bad = json.loads(json.dumps(K946_DOC))
    bad["pattern"]["curves"] = [{"name": "gamma", "class": ["1", "1"]}]
    bad["companions"] = {"gamma": {"symbol": "rG"}}
    path3 = write_doc(tmp_path, bad, "bad.json")
    assert main(["obstruct", path3, "--cmax", "1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "gamma" in err


def test_obstruct_structured_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, K946_DOC)
    assert main(["obstruct", path, "--cmax", "2", "--output", "structured"]) == 0
    first = capsys.readouterr().out
    assert main(["obstruct", path, "--cmax", "2", "--output", "structured"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["schema"] == "rhoslice.report/5"
    assert data["verdict"] == "OBSTRUCTED"
    assert data["c_max"] == 2
    # cells and slot types are listed at c = 1 only
    assert len(data["cells"]) == 6
    assert {cell["c"] for cell in data["cells"]} == {1}
    assert [len(t["types"]) for t in data["slot_types"]] == [2, 2]
    assert all(len(cell["counts"]) == 2 for cell in data["cells"])
    # three count vectors per class: enumerated and listed, no certificate
    assert [t["certificate"] for t in data["slot_types"]] == [None, None]
    assert data["uniform_in_c"] is True
    assert data["audit"]


def test_bare_assembly_decides_the_knot_without_its_reverse(tmp_path,
                                                            capsys):
    # "assembly": "bare" assembles K alone, not K # -tK
    argv = ["obstruct", "--output", "structured"]
    reports = {}
    for assembly in ("bare", "difference-with-reverse"):
        path = write_doc(tmp_path, dict(K946_DOC, assembly=assembly))
        code = main([*argv, path])
        reports[assembly] = json.loads(capsys.readouterr().out)
        assert code == (0 if reports[assembly]["verdict"] == "OBSTRUCTED"
                        else 2)
    knot = InfectedKnot.build(pattern_9_46(), {
        "alpha": Companion("rA", symbol("rA")),
        "beta": Companion("rB", symbol("rB"))})
    spec = FamilySpec((FamilyMember(knot, 1, with_reverse=False),), ("K",))
    assert reports["bare"] == verify_obstructed(spec, 5).to_json()
    blocks = {assembly: int(re.match(r"c=1: assembled (\d+) blocks",
                                     report["audit"][0])[1])
              for assembly, report in reports.items()}
    assert blocks["bare"] < blocks["difference-with-reverse"]


def test_text_verdict_names_the_complexities_decided(tmp_path, capsys):
    # nothing is computed for --cmax, so the verdict line does not echo it
    path = write_doc(tmp_path, K946_DOC)
    assert main(["obstruct", path, "--cmax", "1000000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verdict: OBSTRUCTED (every c >= 1, symbolic)\n")
    assert "1000000" not in out
    # the trefoil's prime is refused by the certificate: only c = 1 is decided
    quiet = {"schema": "rhoslice.knot/1",
             "pattern": {"name": "trefoil", "seifert": [[-1, 1], [0, -1]],
                         "curves": [{"name": "c1", "class": ["0", "0"]}]},
             "companions": {"c1": {"symbol": "rA"}}}
    path = write_doc(tmp_path, quiet, "quiet.json")
    assert main(["obstruct", path, "--cmax", "1000000"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("verdict: INCONCLUSIVE (c = 1, symbolic)\n")
    assert "1000000" not in out


def test_obstruct_numeric_mode(tmp_path, capsys):
    doc = json.loads(json.dumps(K946_DOC))
    doc["companions"] = {
        "alpha": {"seifert": [[1, -1], [0, 1]]},   # left trefoil: +4/3
        "beta": {"rho0": "-4/3"},
    }
    path = write_doc(tmp_path, doc, "numeric.json")
    assert main(["obstruct", path, "--cmax", "2", "--mode", "numeric"]) == 0
    assert "OBSTRUCTED" in capsys.readouterr().out


def test_signature_command(tmp_path, capsys):
    path = write_doc(tmp_path, TREFOIL_DOC)
    assert main(["signature", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "rhoslice.signature/1"
    assert data["jumps"] == [{"jump": -2, "theta": "1/6"}]
    assert data["rho0"] == {"exact": "-4/3"}

    assert main(["signature", path, "--emit", "table"]) == 0
    out = capsys.readouterr().out
    assert "(1/6, 1/2): -2" in out
    assert "signature integral: -4/3" in out


def test_signature_writes_an_interval_for_irrational_angles(tmp_path,
                                                           capsys):
    # the jump of [[1, 1], [2, 4]] sits at an irrational angle
    path = write_doc(tmp_path, {"schema": "rhoslice.knot/1",
                                "seifert": [[1, 1], [2, 4]]})
    assert main(["signature", path]) == 0
    value = json.loads(capsys.readouterr().out)["rho0"]
    lo, hi = map(Fraction, value["interval"])
    assert list(value) == ["interval"] and lo < hi
    assert rho0(SeifertMatrix([[1, 1], [2, 4]])) == (lo, hi, ())
    assert main(["signature", path, "--emit", "table"]) == 0
    assert f"signature integral: [{lo}, {hi}]" in capsys.readouterr().out


def test_signature_unknot(tmp_path, capsys):
    path = write_doc(tmp_path, {"schema": "rhoslice.knot/1", "seifert": []})
    assert main(["signature", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["jumps"] == []
    assert data["rho0"] == {"exact": "0"}


def test_missing_file_is_an_error(capsys):
    assert main(["info", "/nonexistent/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


# -- the command line ------------------------------------------------------------

OPTIONS = {"info": ["--output"], "obstruct": ["--cmax", "--mode", "--output",
                                              "--cells"],
           "signature": ["--emit"]}


def test_usage_errors_exit_1_and_inconclusive_exits_2(tmp_path):
    # exit code 2 means INCONCLUSIVE, so a refused command line exits 1,
    # with the usage and one error line on stderr
    path = write_doc(tmp_path, K946_DOC)
    equal = write_doc(tmp_path, dict(K946_DOC, companions={
        "alpha": {"symbol": "r"}, "beta": {"symbol": "r"}}), "equal.json")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rhoslice.cli", *argv],
                              env=child_env(), capture_output=True, text=True,
                              timeout=120)

    for argv, usage, error in [
            (["obstruct", path, "--cmax", "x"], "obstruct",
             "--cmax takes [0-9]+, not 'x'"),
            (["obstruct", path, "--cmax"], "obstruct",
             "--cmax takes [0-9]+, not ''"),
            (["obstruct", path, "--bogus"], "obstruct",
             "unrecognized argument '--bogus'"),
            # an abbreviation is not an option
            (["obstruct", path, "--out", "text"], "obstruct",
             "unrecognized argument '--out'"),
            (["obstruct", path, "--cells=yes"], "obstruct",
             "--cells takes no value, not 'yes'"),
            (["obstruct", path, "--cells="], "obstruct",
             "--cells takes no value, not ''"),
            (["obstruct", path, "--mode", "exact"], "obstruct",
             "--mode takes symbolic|numeric, not 'exact'"),
            (["info", path, "--output=json"], "info",
             "--output takes text|structured, not 'json'"),
            (["info"], "info", "FILE is missing"),
            (["signature", "--emit", "table"], "signature", "FILE is missing"),
            (["info", path, path], "info", f"unrecognized argument {path!r}"),
            (["bogus", path], None,
             "the command is one of info, obstruct, signature"),
            ([], None, "the command is one of info, obstruct, signature"),
            (["--cmax", "2", "obstruct", path], None, "the command is one of")]:
        proc = run(*argv)
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        lines = proc.stderr.splitlines()
        shown = [line.split()[2] for line in lines if line.startswith("usage:")]
        assert shown == ([usage] if usage else list(OPTIONS)), argv
        assert lines[-1] == f"error: {error}" or (
            usage is None and lines[-1].startswith(f"error: {error}")), argv
        assert sum(line.startswith("error:") for line in lines) == 1, argv
    proc = run("obstruct", equal, "--cmax", "2")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert "INCONCLUSIVE" in proc.stdout


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["info", "-h"],
                                  ["obstruct", "--help"], ["signature", "-h"],
                                  ["obstruct", "knot.json", "--cmax", "x",
                                   "-h"]])
def test_help_exits_0_and_lists_every_option(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    commands = [argv[0]] if argv[0] in OPTIONS else list(OPTIONS)
    assert [line.split()[2] for line in out.splitlines()
            if line.startswith("usage:")] == commands
    listed = re.findall(r"^  (--\w+)", out, re.M)
    assert listed == [option for name in commands for option in OPTIONS[name]]
    assert "-h, --help" in out
    for name in commands:
        assert f"usage: rhoslice {name} FILE" in out


def test_accepted_spellings(tmp_path, capsys):
    # options before or after the file, `--name value` or `--name=value`,
    # and the last of a repeated option wins
    path = write_doc(tmp_path, K946_DOC)
    assert main(["obstruct", path, "--cmax", "2", "--output",
                 "structured"]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["c_max"] == 2
    for argv in (["obstruct", path, "--cmax=2", "--output=structured"],
                 ["obstruct", "--output=structured", "--cmax", "2", path],
                 ["obstruct", "--output", "text", path, "--cmax", "7",
                  "--output", "structured", "--cmax=2"],
                 ["obstruct", "--mode=symbolic", path, "--cmax", "02",
                  "--output", "structured"]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv
    assert main(["info", path, "--output=structured"]) == 0
    structured = capsys.readouterr().out
    assert main(["info", "--output", "text", path, "--output",
                 "structured"]) == 0
    assert capsys.readouterr().out == structured
    assert main(["signature", path, "--emit=table"]) == 0
    assert capsys.readouterr().out.startswith("arc values")


def test_parse_args_reads_the_table_defaults():
    args = cli.parse_args(["obstruct", "knot.json"])
    assert vars(args) == {"func": cli.cmd_obstruct, "file": "knot.json",
                          "cmax": 5, "mode": "symbolic", "output": "text",
                          "cells": False}
    args = cli.parse_args(["obstruct", "--cells", "knot.json", "--cells",
                           "--mode", "numeric", "--cmax=12"])
    assert (args.cells, args.mode, args.cmax) == (True, "numeric", 12)
    assert vars(cli.parse_args(["signature", "k.json"])) == {
        "func": cli.cmd_signature, "file": "k.json", "emit": "jumps"}
    assert vars(cli.parse_args(["info", "k.json"])) == {
        "func": cli.cmd_info, "file": "k.json", "output": "text"}


def test_family_listing_a_knot_twice_is_a_document_error(tmp_path):
    # both entries would assemble to one member name, so the document is
    # refused where it names the knot a second time, not deep in the sweep
    doc = json.loads(json.dumps(FAMILY_DOC))
    doc["knots"]["K3"] = {"companions": {"alpha": {"symbol": "rA3"}}}
    doc["family"] = [{"knot": "K1", "multiplicity": 2},
                     {"knot": "K2", "multiplicity": -3},
                     {"knot": "K3", "multiplicity": 1},
                     {"knot": "K1", "multiplicity": -1}]
    with pytest.raises(DocumentError,
                       match=r"family\[3\]: knot 'K1' is already listed "
                             r"at family\[0\]"):
        parse_document(doc)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                 else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "rhoslice.cli", "obstruct",
         write_doc(tmp_path, doc), "--cmax", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: family[3]: knot 'K1' is already listed "
                           "at family[0]\n")


def child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                 else [])))


def wide_family(rng, kind):
    """A 9_46 family of members with 1, 2 and 3 copies (12 slots per
    class), with distinct symbols, one member's symbol shared by both of
    its curves, or exact numeric companions."""
    mults = [n * rng.choice((1, -1)) for n in rng.sample((1, 2, 3), 3)]
    knots = {}
    for i in range(3):
        comps = {}
        for j, curve in enumerate(("alpha", "beta")):
            if kind == "numeric":
                comps[curve] = {"rho0": str(Fraction(13) ** (2 * i + j - 3))}
            elif kind == "shared" and i == 0:
                comps[curve] = {"symbol": f"s{i}"}
            else:
                comps[curve] = {"symbol": f"s{i}{curve[0]}"}
        knots[f"K{i + 1}"] = {"companions": comps}
    return dict(FAMILY_DOC, knots=knots, family=[
        {"knot": f"K{i + 1}", "multiplicity": m} for i, m in enumerate(mults)])


def test_streamed_report_is_byte_identical(tmp_path, capsys, monkeypatch):
    rng = random.Random(9100)
    for kind in ("distinct", "shared", "numeric"):
        path = write_doc(tmp_path, wide_family(rng, kind), f"{kind}.json")
        mode = "numeric" if kind == "numeric" else "symbolic"
        code = main(["obstruct", path, "--cmax", "2", "--mode", mode,
                     "--output", "structured", "--cells"])
        assert code == (2 if kind == "shared" else 0)
        report = verify_obstructed(family_spec(load_document(path)), 2, mode,
                                   cells=True)
        obj = report.to_json()
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == expected
        # the report spans several batches, and each batch is one write
        chunks = sum(1 for _ in json.JSONEncoder(
            sort_keys=True, indent=2).iterencode(obj))
        assert chunks > 2 * 8192
        writes = []
        monkeypatch.setattr(sys, "stdout", type(
            "Sink", (), {"write": lambda self, text: writes.append(text)})())
        cli._print_json(obj)
        monkeypatch.undo()
        assert "".join(writes) == expected
        assert len(writes) == -(-chunks // 8192) + 1


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the reader of the output is gone before the command writes
    # (`rhoslice obstruct ... | head -0`)
    path = write_doc(tmp_path, K946_DOC)
    for argv in (["obstruct", path, "--cmax", "2", "--output", "structured"],
                 ["obstruct", path, "--cmax", "2"],
                 ["info", path]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "rhoslice.cli", *argv], env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""


def with_companion(beta):
    return dict(K946_DOC, companions={"alpha": {"symbol": "rA"},
                                      "beta": beta})


def with_alpha_class(entry):
    return dict(K946_DOC, pattern=dict(K946_DOC["pattern"], curves=[
        {"name": "alpha", "class": [entry, "0"]},
        {"name": "beta", "class": ["0", "1"]}]))


@pytest.mark.parametrize("doc, argv, message", [
    (with_companion({"rho0": "1/0"}), [], "companions.beta: bad rational"),
    (with_companion({"rho0_interval": ["a", "1"]}), [],
     "companions.beta: bad rational 'a'"),
    (with_companion({"rho0_interval": [None, "1"]}), [],
     "companions.beta: bad rational None"),
    (dict(K946_DOC, pattern=dict(K946_DOC["pattern"], curves=[
        {"name": "alpha", "class": ["1/0", "0"]}])), [],
     "pattern.curves[0]: bad rational '1/0'"),
    (dict(K946_DOC, pattern=dict(K946_DOC["pattern"], curves=[
        {"name": "alpha", "class": [{"coefficients": {"0": "1/0"}}, "0"]}])),
     [], "pattern.curves[0]: bad polynomial"),
    (dict(K946_DOC, pattern=dict(K946_DOC["pattern"], curves=[
        {"name": "alpha", "class": [{"coefficients": {"0": None}}, "0"]}])),
     [], "pattern.curves[0]: bad polynomial"),
    (dict(FAMILY_DOC, family=[{"knot": "K1", "multiplicity": True}]), [],
     "family[0]: multiplicity must be a nonzero integer"),
    (with_alpha_class({"coefficients": [1]}), [],
     "pattern.curves[0]: bad polynomial"),
    (dict(K946_DOC, knots="ab"), ["--cmax", "1"], "knots: expected an object"),
    (dict(FAMILY_DOC, family=[{"knot": ["K1"], "multiplicity": 1}]),
     ["--cmax", "1"], "family[0]: knot must be a string"),
    (dict(K946_DOC, companions={}, pattern=dict(K946_DOC["pattern"], curves=[
        {"name": ["alpha"], "class": ["1", "0"]}])), ["--cmax", "1"],
     "pattern.curves[0]: name must be a string"),
    (with_companion({"symbol": ["x"]}), ["--cmax", "1"],
     "companions.beta: symbol must be a string"),
    (dict(K946_DOC, pattern=dict(K946_DOC["pattern"], name=["9_46"])),
     ["--cmax", "1"], "pattern.name: expected a string"),
    (with_alpha_class({"coefficients": "1"}), [],
     "pattern.curves[0]: bad polynomial"),
    (with_alpha_class({"coefficients": None}), [],
     "pattern.curves[0]: bad polynomial"),
    (with_alpha_class(None), [], "pattern.curves[0]: bad rational None"),
    (with_alpha_class({"coefficients": {"1001": "1"}}), [],
     "exponent 1001 exceeds MAX_CURVE_EXPONENT = 1000"),
    (with_alpha_class({"coefficients": {"-100000000": "1"}}), [],
     "exponent 100000000 exceeds MAX_CURVE_EXPONENT = 1000"),
    (with_alpha_class(0.5), [], "pattern.curves[0]: 0.5 is not exact"),
    (with_alpha_class({"coefficients": {"0": 0.5}}), [],
     "exponent 0: 0.5 is not exact"),
    (with_alpha_class({"coefficients": {"0": True}}), [],
     "exponent 0: True is not exact"),
    (with_companion({"rho0": 0.1}), [],
     'companions.beta: 0.1 is not exact; write a rational as a "p/q" string'),
    (with_companion({"rho0_interval": ["0", 1.5]}), [],
     "companions.beta: 1.5 is not exact"),
    (with_companion({"rho0": False}), [], "companions.beta: False is not exact"),
    # Fraction alone would expand the exponent, for minutes
    (with_companion({"rho0": "1e100000000"}), [],
     "companions.beta: bad rational '1e100000000'"),
    (with_companion({"rho0_interval": ["0", "1.5"]}), [],
     "companions.beta: bad rational '1.5'"),
    # numbers beyond the default digit limit, which int() would read in
    # time quadratic in their length (96 s and 6.2 s without the limit);
    # the digits are not quoted
    (dict(K946_DOC, companions={"alpha": {"rho0": "7" * 10 ** 6}}), [],
     "companions.alpha: bad rational of 1000000 characters, over the "
     "4300-digit limit"),
    pytest.param('{"schema": "rhoslice.knot/1", "seifert": [[%s, 1], '
                 '[0, -1]]}' % ("7" * 200000), [], "value has 200000 digits",
                 id="integer-of-200000-digits"),
    # keys are quoted only up to a fixed length
    pytest.param(json.dumps(K946_DOC).replace(
        '{', '{"%s": 1, "%s": 2, ' % (("k" * 10 ** 6,) * 2), 1), [],
        "key of 1000000 characters is repeated", id="long-repeated-key"),
    pytest.param(with_alpha_class({"coefficients": {"x" * 10 ** 6: "1"}}), [],
                 "exponent of 1000000 characters is not an integer",
                 id="long-exponent-key"),
    pytest.param(with_alpha_class({"coefficients": {"7" * 10 ** 6: "1"}}), [],
                 "exponent of 1000000 characters, over the 4300-digit limit",
                 id="exponent-key-of-1000000-digits"),
    pytest.param(with_alpha_class({"coefficients": {"7" * 4000: "1"}}), [],
                 "exponent of 4000 characters exceeds MAX_CURVE_EXPONENT",
                 id="exponent-key-of-4000-digits"),
    pytest.param(with_alpha_class({"coefficients": {"7" * 4000: "x"}}), [],
                 "exponent of 4000 characters: bad rational 'x'",
                 id="exponent-key-of-4000-digits-and-a-bad-value"),
])
def test_bad_input_exits_1_without_a_traceback(tmp_path, doc, argv, message):
    proc = subprocess.run(
        [sys.executable, "-m", "rhoslice.cli", "obstruct",
         write_doc(tmp_path, doc), *argv],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert len(proc.stderr) < 1000


@pytest.mark.parametrize("sign", ["", "-"])
def test_a_number_past_the_digit_limit_is_reported_against_it(tmp_path,
                                                              capsys, sign):
    # the message names the document's limit, not the interpreter call
    # that would raise it
    path = write_doc(tmp_path, '{"schema": "rhoslice.knot/1", "seifert": '
                     '[[%s%s, 1], [0, -1]]}' % (sign, "7" * 4301))
    assert main(["info", path]) == 1
    err = capsys.readouterr().err
    assert "exceeds the document's 4300-digit limit" in err
    assert "4301 digits" in err and "sys." not in err
    # a number at the limit is read
    write_doc(tmp_path, '{"schema": "rhoslice.knot/1", "seifert": '
              '[[%s%s, 1], [0, -1]]}' % (sign, "7" * 4300))
    assert main(["signature", path]) == 0


@pytest.mark.parametrize("doc, message", [
    # "0" and "00" name one exponent; the 1 would be dropped
    (with_alpha_class({"coefficients": {"0": "1", "00": "5"}}),
     "pattern.curves[0]: bad polynomial: two keys name one exponent"),
    (with_alpha_class({"coefficients": {"1_0": "1"}}),
     "pattern.curves[0]: bad polynomial: exponent '1_0' is not an integer"),
    (with_alpha_class({"coefficients": {" 2": "1"}}),
     "pattern.curves[0]: bad polynomial: exponent ' 2' is not an integer"),
    (with_alpha_class({"coefficients": {"\u0663": "1"}}),
     "pattern.curves[0]: bad polynomial: exponent '\u0663' is not an "
     "integer"),
    # json keeps the last of a repeated key; the first K1 would be dropped
    pytest.param(json.dumps(FAMILY_DOC).replace(
        '"knots": {', '"knots": {"K1": {"companions": {}}, ', 1),
        "key 'K1' is repeated", id="knot-listed-twice"),
    pytest.param(json.dumps(K946_DOC).replace(
        '{', '{"schema": "rhoslice.knot/1", ', 1),
        "key 'schema' is repeated", id="schema-twice"),
])
def test_keys_that_name_one_value_twice_are_refused(tmp_path, capsys, doc,
                                                    message):
    assert main(["obstruct", write_doc(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


def float_family(alpha1, alpha2):
    """K1 x3 and K2 x-1 with exact companions; 3*alpha1 - alpha2 is the
    alpha sum of their copies."""
    return dict(FAMILY_DOC, knots={
        "K1": {"companions": {"alpha": {"rho0": alpha1}, "beta": {"rho0": "1"}}},
        "K2": {"companions": {"alpha": {"rho0": alpha2},
                              "beta": {"rho0": "1000/7"}}}},
        family=[{"knot": "K1", "multiplicity": 3},
                {"knot": "K2", "multiplicity": -1}])


def test_json_floats_are_refused_not_read_in_binary(tmp_path, capsys):
    # as binary floats 3 * 0.1 - 0.3 is 2^-55, not 0, which once turned
    # this INCONCLUSIVE family into a false OBSTRUCTED
    path = write_doc(tmp_path, float_family("1/10", "3/10"))
    argv = ["obstruct", path, "--mode", "numeric", "--output", "structured"]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "INCONCLUSIVE"
    assert report["witnesses"][0]["support"] == [
        "K1[1].beta", "K1[2].beta", "K1[3].beta", "K2[1].beta"]
    write_doc(tmp_path, float_family(0.1, 0.3))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('error: knots.K1.companions.alpha: 0.1 is not '
                            'exact; write a rational as a "p/q" string\n')
    with pytest.raises(DocumentError, match="0.1 is not exact"):
        load_document(path)


def test_precision_with_an_exponent_is_refused(tmp_path):
    # a knot with an irrational jump angle reads the precision budget;
    # Fraction alone would expand the exponent, for minutes
    path = write_doc(tmp_path, {"schema": "rhoslice.knot/1",
                                "seifert": [[1, 1], [2, 4]]})
    proc = subprocess.run(
        [sys.executable, "-m", "rhoslice.cli", "signature", path],
        env=dict(child_env(), **{signatures.PRECISION_ENV: "1e-100000000"}),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: bad {signatures.PRECISION_ENV} value "
                           "'1e-100000000'\n")


@pytest.mark.parametrize("doc, message", [
    # without a family only the top-level companions are decided, as K
    (dict(K946_DOC, companions={"alpha": {"symbol": "top"}},
          knots={"K1": FAMILY_DOC["knots"]["K1"]}),
     "error: knots: a document without a family decides no listed knot\n"),
    # with a family each knot's companions come from `knots`
    (dict(FAMILY_DOC, companions={"alpha": {"symbol": "top"}}),
     "error: companions: a family document takes each knot's companions "
     "from 'knots'\n"),
])
def test_fields_the_family_would_drop_are_refused(tmp_path, capsys, doc,
                                                  message):
    assert main(["obstruct", write_doc(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_curve_exponents_at_the_bound_run_in_seconds(tmp_path, capsys):
    for exponent in (cli.MAX_CURVE_EXPONENT, -cli.MAX_CURVE_EXPONENT):
        path = write_doc(tmp_path, with_alpha_class(
            {"coefficients": {str(exponent): "1"}}))
        start = time.perf_counter()
        assert main(["obstruct", path]) == 0
        assert time.perf_counter() - start < 10.0
        assert "verdict: OBSTRUCTED" in capsys.readouterr().out
